// Package par mimics the worker pool's ForEach and ForEachWorker
// signatures so fixtures can exercise the parcapture analyzer without
// importing the real module.
package par

// ForEach invokes fn(i) for i in [0, n).
func ForEach(n int, fn func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// ForEachWorker invokes fn(0, i) for i in [0, n).
func ForEachWorker(n int, fn func(worker, i int) error) error {
	for i := 0; i < n; i++ {
		if err := fn(0, i); err != nil {
			return err
		}
	}
	return nil
}
