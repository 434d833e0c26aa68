package pagecache

// DirtyCount reports the number of dirty pages.
func (c *Cache) DirtyCount() int { return c.ndirt }

// Identity returns the (file, offset) a frame caches.
func (c *Cache) Identity(pfn uint64) (FileID, uint64, bool) {
	e, ok := c.entry(pfn)
	if !ok {
		return 0, 0, false
	}
	return c.files[e.file-1].id, uint64(e.off), true
}

// Pages reports the number of cached pages.
func (c *Cache) Pages() int { return c.pages }

// FilePages reports the number of cached pages of one file.
func (c *Cache) FilePages(file FileID) int {
	if f := c.fileOf(file, false); f != nil {
		return f.pages
	}
	return 0
}
