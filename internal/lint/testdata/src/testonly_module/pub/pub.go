// Package pub is outside internal/, so testonly ignores it although no
// file uses Exported.
package pub

func Exported() {}
