module distbound/bench

go 1.24

require distbound v0.0.0

replace distbound => ../
