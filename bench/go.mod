module forestview/bench

go 1.23

require forestview v0.0.0

replace forestview => ../
