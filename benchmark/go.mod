module github.com/treedoc/treedoc/benchmark

go 1.22

require github.com/treedoc/treedoc v0.0.0

replace github.com/treedoc/treedoc => ../
