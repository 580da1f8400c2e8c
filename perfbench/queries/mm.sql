-- Market-maker detection (§4): per-broker imbalance between ask and bid
-- volume, joined on broker.
-- Schema matches src/workload/orderbook.cc (OrderBookCatalog).
create table BIDS(ID int, BROKER_ID int, PRICE int, VOLUME int);
create table ASKS(ID int, BROKER_ID int, PRICE int, VOLUME int);

select b.BROKER_ID, sum(a.VOLUME - b.VOLUME)
  from BIDS b, ASKS a where b.BROKER_ID = a.BROKER_ID
  group by b.BROKER_ID;
