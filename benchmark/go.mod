module aqverify/benchmark

go 1.23

require aqverify v0.0.0

replace aqverify => ../
