package hieras

import "errors"

// Sentinel errors returned by the facade. They are always wrapped with
// context (the offending value, the valid range), so check them with
// errors.Is, not equality:
//
//	if _, err := sys.Lookup(-1, "k"); errors.Is(err, hieras.ErrOriginOutOfRange) { ... }
var (
	// ErrOriginOutOfRange reports a lookup origin outside [0, N).
	ErrOriginOutOfRange = errors.New("hieras: origin out of range")
	// ErrBadOptions reports invalid construction or batch parameters:
	// negative Options fields, an unknown topology model, a non-positive
	// cache capacity, or mismatched BatchLookup slice lengths.
	ErrBadOptions = errors.New("hieras: invalid options")
)
