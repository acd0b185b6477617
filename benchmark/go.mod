module libspector/benchmark

go 1.22

require libspector v0.0.0

replace libspector => ../
