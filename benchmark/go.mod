module pathdb/benchmark

go 1.22

require pathdb v0.0.0

replace pathdb => ../
