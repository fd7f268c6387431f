module brepartition/bench

go 1.22

require brepartition v0.0.0

replace brepartition => ../
