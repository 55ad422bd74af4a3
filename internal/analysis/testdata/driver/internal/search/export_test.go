package search

// Render exposes render to the external test package, the export_test.go
// idiom: Load must resolve the external test's import of this package to
// its test variant — even after a plain import of it (core) was loaded — or
// the method is undefined there.
func (p Pair) Render() string { return p.render() }
