package snapshot

// NewCodec returns a codec over body: a writing one appends to it, a
// reading one reads it from the start.
func NewCodec(body []byte, reading bool) *Codec { return &Codec{b: body, reading: reading} }

// Body returns the codec's section body.
func (c *Codec) Body() []byte { return c.b }
