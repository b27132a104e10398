//go:build !amd64

package platform

func step() int { return 1 }
