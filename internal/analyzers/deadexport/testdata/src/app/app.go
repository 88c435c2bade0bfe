// Package app lives outside internal/: it refers to lib's exports, and its
// own unreferenced exports are out of the analyzer's scope.
package app

import "internal/lib"

// Run calls lib from production code and takes a method value.
func Run() int {
	get := (&lib.T{}).Get
	var s lib.Shape = lib.Square{}
	_ = s
	return lib.UsedByApp() + get()
}

// Unreferenced is exported outside internal/, so it is never reported.
func Unreferenced() {}
