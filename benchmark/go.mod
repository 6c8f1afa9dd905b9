module stance/benchmark

go 1.23

require stance v0.0.0

replace stance => ../
