package pipeline

import "sync"

// StepFailing runs one step's cells as Step does, each hosted cell on a
// goroutine of its own, except that cell (k, s) dies after its first
// forward: it marks itself failed with cause, exactly as runStage does when
// a transport call inside it errors, and sends nothing more. It returns
// every hosted cell's error in rank order, where Step keeps only the first
// (Err), and leaves the engine failed.
func (e *Engine) StepFailing(k, s int, cause error) []error {
	idx, _ := e.loader.Next()
	e.begin(idx)
	errs := make([]error, len(e.owned))
	var wg sync.WaitGroup
	for i, rt := range e.owned {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rt.k == k && rt.s == s {
				if errs[i] = e.forward(rt, 0); errs[i] == nil {
					errs[i] = cause
				}
				e.abort(rt, errs[i])
			} else {
				errs[i] = e.runStage(rt)
			}
			e.fail(errs[i])
		}()
	}
	wg.Wait()
	return errs
}
