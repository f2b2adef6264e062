package omq

// The envelopes, exposed to the external fuzz test (which also needs core,
// and core imports omq).
type (
	Request  = request
	Response = response
)
