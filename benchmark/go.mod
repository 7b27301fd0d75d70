module permchain/benchmark

go 1.22

require permchain v0.0.0

replace permchain => ../
