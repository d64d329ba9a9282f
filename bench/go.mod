module d3t/bench

go 1.24

require d3t v0.0.0

replace d3t => ../
