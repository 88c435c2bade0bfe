package lib

func sibling() int { return UsedBySibling() }
