module canalmesh/benchmark

go 1.23

require canalmesh v0.0.0

replace canalmesh => ../
