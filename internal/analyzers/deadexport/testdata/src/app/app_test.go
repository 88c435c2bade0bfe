package app

import "internal/lib"

func fixture() int { return lib.UsedByOtherTests() }
