package metrics

import "fmt"

// Conserved returns nil when the two sides of a component's conservation law
// agree, and otherwise an error naming the component, the law and both sides.
// Each Stats struct that counts items in and out states its law beside the
// struct and checks it with this (DESIGN.md §10); core.Drive.Conserved holds
// every one of a finished drive's.
func Conserved(component, law string, lhs, rhs uint64) error {
	if lhs == rhs {
		return nil
	}
	return fmt.Errorf("%s: %s does not hold: %d ≠ %d", component, law, lhs, rhs)
}
