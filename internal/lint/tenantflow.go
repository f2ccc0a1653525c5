package lint

// TenantFlow reports cross-tenant data leaks found by the dataflow engine
// (dataflow.go): a value carrying tenant payload taint — request paths,
// headers, bodies, error text derived from them — reaching a sink
// (response write, the shared access log, package-level state) with no
// identity taint traveling alongside to key it to the owning tenant.
// Findings cross function boundaries through bottom-up summaries and are
// reported with the propagation chain, hotpath-style:
//
//	tenant payload from l7.Request.Path (request.go:12) reaches
//	http.Error response write without a tenant key (via Serve -> fail)
//
// Audited sites are declared with //canal:boundary <reason> on the
// function (its body is exempt and taint stops there) or suppressed per
// line with //canal:allow tenantflow <reason>.
func TenantFlow() *Analyzer {
	return &Analyzer{
		Name:      "tenantflow",
		Doc:       "report tenant-tainted values reaching response/log/state sinks without the tenant key (interprocedural taint)",
		runModule: func(m *module) []Diagnostic { return m.taintEngine().findingsFor("tenantflow") },
	}
}
