package spell

// PoisonReleased makes every buffer released to the column pool NaN from
// now until the returned function is called, for the tests of package
// spell_test.
func PoisonReleased() (restore func()) {
	poisonReleased.Store(true)
	return func() { poisonReleased.Store(false) }
}
