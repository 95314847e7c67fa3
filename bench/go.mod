module selnet/bench

go 1.24

require selnet v0.0.0

replace selnet => ../
