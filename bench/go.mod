module probsum/bench

go 1.24

require probsum v0.0.0

replace probsum => ../
