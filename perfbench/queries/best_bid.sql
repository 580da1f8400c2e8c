-- Best bid (§4): running maximum bid price.
-- Schema matches src/workload/orderbook.cc (OrderBookCatalog).
create table BIDS(ID int, BROKER_ID int, PRICE int, VOLUME int);

select max(PRICE) from BIDS;
