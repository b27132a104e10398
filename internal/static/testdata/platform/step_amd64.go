package platform

func step() int { return 1 }
