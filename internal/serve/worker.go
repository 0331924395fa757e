package serve

// The in-process worker: the one goroutine that executes jobs. It takes
// the server's waiting jobs in admission order and runs each through the
// executor, one at a time. Taking a job is setting its held flag under
// the job's mutex, which is also where a DELETE decides whether the job
// never started; the journal lock keeps every other process away.

// startWorker starts the in-process worker. Admission rings the doorbell
// (s.wake), so the worker never polls while a job waits. On shutdown it
// runs every job still waiting (each honors its own context, so an
// aborted shutdown cancels them), then exits.
func (s *Server) startWorker() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for draining := false; ; {
			if s.runOne() {
				continue
			}
			if draining {
				return
			}
			select {
			case <-s.wake:
			case <-s.drain:
				// Shutdown closes drain after its closing transition, so the
				// scans after it see every job admitted before it.
				draining = true
			}
		}
	}()
}

// runOne takes the first waiting job, executes it, and reports whether
// it ran one. A job that turned terminal between the scan and the take
// (a DELETE canceled it) is skipped.
func (s *Server) runOne() bool {
	for _, j := range s.waitingJobs() {
		if j.take() {
			s.exec.run(j)
			return true
		}
	}
	return false
}
