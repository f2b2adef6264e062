module stacksync/benchmark

go 1.22

require stacksync v0.0.0

replace stacksync => ../
