package stats

// LogChoose lets oracle_test.go, which imports internal/oracle and so
// cannot be in this package, reach logChoose.
var LogChoose = logChoose
