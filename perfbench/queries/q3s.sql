-- TPC-H Q3-shaped (shipping priority): 3-way join with a string equality
-- predicate and DATE literal comparisons, grouped by order key.
create table CUSTOMER(CUSTKEY int, MKTSEGMENT string);
create table ORDERS(ORDERKEY int, CUSTKEY int, ORDERDATE date, SHIPPRIORITY int);
create table LINEITEM(ORDERKEY int, EXTENDEDPRICE double, DISCOUNT double, SHIPDATE date);

select L.ORDERKEY, sum(L.EXTENDEDPRICE * (1 - L.DISCOUNT)) as REVENUE
  from CUSTOMER C, ORDERS O, LINEITEM L
  where C.MKTSEGMENT = 'BUILDING'
    and C.CUSTKEY = O.CUSTKEY
    and L.ORDERKEY = O.ORDERKEY
    and O.ORDERDATE < DATE '1995-03-15'
    and L.SHIPDATE > DATE '1995-03-15'
  group by L.ORDERKEY;
