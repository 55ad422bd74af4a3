// Package core imports search, so the plain search package is loaded
// before search's external test is type-checked.
package core

import "example.com/driver/internal/search"

// Render forwards to search.Pair.
func Render(p search.Pair) string { return p.A + "\x00" + p.B }
