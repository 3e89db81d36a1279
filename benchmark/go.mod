module openivm/benchmark

go 1.22

require openivm v0.0.0

replace openivm => ../
