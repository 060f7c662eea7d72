package service

// Hooks for the external differential tests (decode_fuzz_test.go), which
// declare their reference types under the service's own type names so that
// encoding/json's error messages name the same structs.

// WireRequest is a decoded planning-request body.
type WireRequest = wireRequest

// BatchWire is a decoded /v1/batch body.
type BatchWire = batchWire

// DecodePlanBody decodes a complete planning-request body as the planning
// handlers do.
func DecodePlanBody(body []byte) (*WireRequest, error) {
	return decodeBody(body, nil, readPlainRequest)
}

// DecodeBatchBody decodes a complete /v1/batch body as handleBatch does.
func DecodeBatchBody(body []byte) (*BatchWire, error) {
	return decodeBody(body, nil, readPlainBatch)
}

// CodeOf is the wire error code the handlers answer err with.
func CodeOf(err error) string { return codeOf(err) }
