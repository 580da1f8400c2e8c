-- VWAP leg of the paper's SOBI trading strategy (§4): sum of price*volume
-- over the bids whose deeper book (orders at strictly higher prices) holds
-- less than 25% of total bid volume. Nested correlated aggregates — the
-- query class first-order IVM cannot handle.
-- Schema matches src/workload/orderbook.cc (OrderBookCatalog).
create table BIDS(ID int, BROKER_ID int, PRICE int, VOLUME int);

select sum(b1.PRICE * b1.VOLUME) from BIDS b1 where
  (select sum(b2.VOLUME) from BIDS b2 where b2.PRICE > b1.PRICE) * 4
  < (select sum(b3.VOLUME) from BIDS b3);
