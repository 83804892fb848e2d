package mom

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// PipelineOptions selects the window and output sinks of a pipeline-trace
// export. Start and Count window the dynamic instruction stream (Count 0
// records from Start to the end of the run); at least one of Konata and
// Chrome must be set.
type PipelineOptions struct {
	Start  uint64    // first dynamic instruction to record
	Count  uint64    // instructions to record (0 = to end of run)
	Konata io.Writer // Kanata log sink (Konata pipeline viewer), optional
	Chrome io.Writer // Chrome trace-event JSON sink (Perfetto), optional
}

// PipelineExport reports one pipeline-trace export: the timed run the trace
// was cut from and how many instructions each sink recorded.
type PipelineExport struct {
	Result   Result
	Recorded int // instructions inside the export window
}

// exportPipeline runs one workload with the requested exporters attached.
func exportPipeline(app bool, name string, i ISA, width int, m MemModel, sc Scale, opt PipelineOptions) (PipelineExport, error) {
	if opt.Konata == nil && opt.Chrome == nil {
		return PipelineExport{}, fmt.Errorf("mom: pipeline export needs at least one output (Konata or Chrome)")
	}
	key := traceKey{app: app, name: name, isa: i, scale: sc}
	p, err := key.program()
	if err != nil {
		return PipelineExport{}, err
	}
	disasm := make([]string, len(p.Insts))
	for pc, in := range p.Insts {
		disasm[pc] = in.String()
	}
	var kw *obs.KonataWriter
	var cw *obs.ChromeWriter
	var observers []obs.Observer
	if opt.Konata != nil {
		kw = obs.NewKonata(opt.Konata, opt.Start, opt.Count, disasm)
		observers = append(observers, kw)
	}
	if opt.Chrome != nil {
		cw = obs.NewChrome(opt.Chrome, opt.Start, opt.Count, disasm)
		observers = append(observers, cw)
	}
	res, err := runWorkload(key, width, m, SampleSpec{}, obs.Multi(observers...))
	if err != nil {
		return PipelineExport{}, err
	}
	exp := PipelineExport{Result: res}
	if kw != nil {
		exp.Recorded = kw.Recorded()
		if err := kw.Flush(); err != nil {
			return exp, fmt.Errorf("mom: konata export: %w", err)
		}
	}
	if cw != nil {
		exp.Recorded = cw.Recorded()
		if err := cw.Flush(); err != nil {
			return exp, fmt.Errorf("mom: chrome trace export: %w", err)
		}
	}
	return exp, nil
}

// ExportKernelPipeline exports the pipeline lifetimes of a kernel run.
func ExportKernelPipeline(kernel string, i ISA, width int, m MemModel, sc Scale, opt PipelineOptions) (PipelineExport, error) {
	return exportPipeline(false, kernel, i, width, m, sc, opt)
}

// ExportAppPipeline exports the pipeline lifetimes of an application run.
func ExportAppPipeline(app string, i ISA, width int, m MemModel, sc Scale, opt PipelineOptions) (PipelineExport, error) {
	return exportPipeline(true, app, i, width, m, sc, opt)
}
