-- SSB Q4.1 (§4.2 warehouse bakeoff): profit by order year and customer
-- nation over the 5-way data-integration join.
-- Schemas match src/workload/tpch.cc (TpchCatalog).
create table CUSTOMER(CUSTKEY int, NATION int, REGION int);
create table SUPPLIER(SUPPKEY int, NATION int, REGION int);
create table PART(PARTKEY int, MFGR int);
create table ORDERS(ORDERKEY int, CUSTKEY int, OYEAR int);
create table LINEITEM(ORDERKEY int, PARTKEY int, SUPPKEY int,
                      QUANTITY int, EXTENDEDPRICE int, SUPPLYCOST int);

select O.OYEAR, C.NATION, sum(L.EXTENDEDPRICE - L.SUPPLYCOST)
  from LINEITEM L, ORDERS O, CUSTOMER C, SUPPLIER S, PART P
  where L.ORDERKEY = O.ORDERKEY and O.CUSTKEY = C.CUSTKEY
  and L.SUPPKEY = S.SUPPKEY and L.PARTKEY = P.PARTKEY
  and C.REGION = 1 and S.REGION = 1
  and (P.MFGR = 1 or P.MFGR = 2)
  group by O.OYEAR, C.NATION;
