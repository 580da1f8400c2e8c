-- The 17 SQL-fragment micro queries of the differential and verifier tests
-- (tests/differential_test.cc, tests/tir_verify_test.cc) as one script, in
-- the same order: dbtc compiles them into one program with views q0..q16
-- that share maps, which serving_test drives as a multi-view engine.
create table R(K int, TAG string, V int, D date, X double);
create table S(K int, NOTE string, W int);

-- q0 like
select sum(R.V) from R where R.TAG like 'M%';
-- q1 not_like
select R.K, count(*) from R where R.TAG not like '%special%' group by R.K;
-- q2 in_list
select R.TAG, sum(R.V) from R where R.TAG in ('MAIL', 'SHIP', 'RAIL') group by R.TAG;
-- q3 case_when
select R.K, sum(case when R.TAG = 'MAIL' then R.V else 0 end) from R group by R.K;
-- q4 case_chain
select sum(case when R.V < 2 then 10 when R.V < 5 then R.V else 0 end) from R;
-- q5 extract_parts
select count(*) from R where EXTRACT(MONTH FROM R.D) = 3 and EXTRACT(DAY FROM R.D) < 20;
-- q6 date_range
select R.K, sum(R.X) from R where R.D >= DATE '1994-01-01' and R.D < DATE '1994-01-01' + INTERVAL '6' MONTH group by R.K;
-- q7 between
select sum(R.V) from R where R.V between 2 and 5;
-- q8 having_hidden_agg
select R.K, sum(R.V) from R group by R.K having count(*) > 3;
-- q9 having_with_min
select R.K, min(R.V) from R group by R.K having count(*) > 2;
-- q10 having_bool
select R.TAG, count(*) from R group by R.TAG having (sum(R.V) > 8 or count(*) > 5) and not (count(*) = 7);
-- q11 string_group_eq
select R.TAG, count(*) from R, S where R.K = S.K and R.TAG = S.NOTE group by R.TAG;
-- q12 left_join_count
select R.K, count(*) from R left outer join S on R.K = S.K group by R.K;
-- q13 left_join_sum
select R.TAG, sum(R.V) from R left join S on R.K = S.K and S.W > 3 group by R.TAG;
-- q14 left_join_having
select R.K, count(*) from R left outer join S on R.K = S.K and S.NOTE like '%e%' group by R.K having count(*) > 2;
-- q15 left_join_degenerate
select R.K, count(*) from R left join S on R.K = S.K where S.W > 2 group by R.K;
-- q16 left_join_global
select count(*) from R left join S on R.K = S.K;
