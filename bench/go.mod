module github.com/manetlab/rpcc/bench

go 1.22

require github.com/manetlab/rpcc v0.0.0

replace github.com/manetlab/rpcc => ../
