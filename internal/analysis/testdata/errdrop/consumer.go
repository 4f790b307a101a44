// Package eio is the errdrop golden: typed I/O errors surfaced by
// ioengine.go/faults.go must not be discarded in internal/core packages.
package eio

func helper() error { return nil } // declared here, not in a tracked file

func drops(e *Engine) {
	n, _ := e.ReadRun(0, 8) // want "typed I/O error from ReadRun discarded"
	_ = n
	e.DirectWrite(0)    // want "typed I/O error from DirectWrite ignored"
	InjectFault("plan") // want "typed I/O error from InjectFault ignored"
	_ = helper()        // untracked declaring file: fine
}

func handles(e *Engine) error {
	if _, err := e.WriteRun(0, 8); err != nil {
		return err
	}
	if err := e.DirectWrite(0); err != nil {
		return err
	}
	return InjectFault("plan")
}
