package lib

func ownTest() int { return OwnTestsOnly() + sibling() + unusedHelper() }

func unusedHelper() int { return 0 }
