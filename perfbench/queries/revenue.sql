-- Revenue rollup by order year (§4.2 warehouse bakeoff): the simpler
-- loading + analysis query next to SSB Q4.1. Events for the dimension
-- tables are ignored by the generated dispatcher.
-- Schemas match src/workload/tpch.cc (TpchCatalog).
create table ORDERS(ORDERKEY int, CUSTKEY int, OYEAR int);
create table LINEITEM(ORDERKEY int, PARTKEY int, SUPPKEY int,
                      QUANTITY int, EXTENDEDPRICE int, SUPPLYCOST int);

select O.OYEAR, sum(L.EXTENDEDPRICE * L.QUANTITY)
  from LINEITEM L, ORDERS O where L.ORDERKEY = O.ORDERKEY
  group by O.OYEAR;
