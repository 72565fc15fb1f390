//go:build race

package vector

// raceEnabled reports whether this test binary was built with the race
// detector, which deliberately defeats sync.Pool caching (Get randomly
// misses so cross-goroutine reuse gets exercised); allocation pins on
// pooled paths only hold without it.
const raceEnabled = true
