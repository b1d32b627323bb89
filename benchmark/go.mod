module decibel/benchmark

go 1.23

require decibel v0.0.0

replace decibel => ../
