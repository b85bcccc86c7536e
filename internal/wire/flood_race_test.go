//go:build race

package wire

// floodCallers is how many calls TestServeFloodBounded has in flight at
// once. The race detector refuses more than 8,128 live goroutines.
const floodCallers = 4000
