package lib_test

import "internal/lib"

func extTest() int { return lib.ExternalTestsOnly() }
