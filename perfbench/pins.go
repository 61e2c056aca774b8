package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// pins.json holds the model-output fingerprints of the default seed and of
// the fixed reference-size inputs, as measured at the commit that recorded
// them. A run whose fingerprint differs from its pin fails: the model moved.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins() (map[string]string, error) {
	pins := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}
