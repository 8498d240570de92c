// Package unused is an RB-X2 fixture: a directive that suppresses no
// finding is itself reported.
package unused

import "time"

func used() time.Time {
	//lint:allow RB-D1 fixture: telemetry-only stopwatch
	return time.Now()
}

func unused() int {
	//lint:allow RB-D1 fixture: the clock read it excused is gone // want "lint directive suppresses nothing"
	return 1
}
