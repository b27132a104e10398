// Package litrec holds a recursive function literal, whose id in the
// analyzer's unknown reasons embeds a source position.
package litrec

import "sync"

var (
	mu    sync.Mutex
	total int
)

// Drain recurses through a function literal, which the analyzer does not
// unroll: the verdict is unknown and names the literal.
func Drain(depth int) {
	var step func(int)
	step = func(d int) {
		mu.Lock()
		total++
		mu.Unlock()
		if d > 0 {
			step(d - 1)
		}
	}
	step(depth)
}
