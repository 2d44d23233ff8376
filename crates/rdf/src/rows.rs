//! The flat id-row buffer every result path appends to.
//!
//! A query result is a table of integer ids until the moment it is written
//! out: the matcher appends data-graph ids, the join baselines and the
//! projection append dictionary [`TermId`]s. One result owns one `Vec<u32>`:
//! rows have a fixed stride, an unbound cell is [`UNBOUND`], and nothing is
//! allocated per row or per cell.

use crate::dictionary::TermId;

/// The cell value of a variable left unbound (an OPTIONAL clause that did
/// not match, or a projected variable the pattern never binds).
pub const UNBOUND: u32 = u32::MAX;

/// A table of fixed-stride `u32` rows in one flat buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdRows {
    stride: usize,
    /// Kept beside the buffer because a stride of 0 (no columns) still has a
    /// row count.
    len: usize,
    cells: Vec<u32>,
}

impl IdRows {
    /// An empty table whose rows have `stride` cells.
    pub fn new(stride: usize) -> Self {
        IdRows {
            stride,
            len: 0,
            cells: Vec::new(),
        }
    }

    /// An empty table with room for `rows` rows.
    pub fn with_capacity(stride: usize, rows: usize) -> Self {
        IdRows {
            stride,
            len: 0,
            cells: Vec::with_capacity(stride * rows),
        }
    }

    /// A table of `rows` all-[`UNBOUND`] rows.
    pub fn unbound(stride: usize, rows: usize) -> Self {
        IdRows {
            stride,
            len: rows,
            cells: vec![UNBOUND; stride * rows],
        }
    }

    /// The cell of a bound term id. No dictionary holds the id [`UNBOUND`]:
    /// it refuses the 2³²-th term.
    pub fn cell(id: TermId) -> u32 {
        debug_assert_ne!(id.0, UNBOUND);
        id.0
    }

    /// The term id in a cell, `None` for [`UNBOUND`].
    pub fn term_id(cell: u32) -> Option<TermId> {
        (cell != UNBOUND).then_some(TermId(cell))
    }

    /// Cells per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cells[i * self.stride..(i + 1) * self.stride]
    }

    /// The rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.len).map(move |i| self.row(i))
    }

    /// Appends one row.
    pub fn push(&mut self, row: &[u32]) {
        debug_assert_eq!(row.len(), self.stride);
        self.cells.extend_from_slice(row);
        self.len += 1;
    }

    /// Appends one all-[`UNBOUND`] row and returns it for filling in.
    pub fn push_unbound(&mut self) -> &mut [u32] {
        let start = self.cells.len();
        self.cells.resize(start + self.stride, UNBOUND);
        self.len += 1;
        &mut self.cells[start..]
    }

    /// Fills `column` from another table of the same length: every row's
    /// cell becomes `map` of the cell in `source`'s `source_column`, and stays
    /// as it is where that cell is [`UNBOUND`]. Resolving a projected
    /// variable once per column instead of once per cell is what this is for.
    pub fn fill_column(
        &mut self,
        column: usize,
        source: &IdRows,
        source_column: usize,
        map: impl Fn(u32) -> u32,
    ) {
        assert_eq!(
            self.len, source.len,
            "filling from a table of another length"
        );
        assert!(column < self.stride && source_column < source.stride);
        let cells = self.cells.iter_mut().skip(column).step_by(self.stride);
        let from = source
            .cells
            .iter()
            .skip(source_column)
            .step_by(source.stride);
        for (cell, &id) in cells.zip(from) {
            if id != UNBOUND {
                *cell = map(id);
            }
        }
    }

    /// Sets `column` of every row to `cell`.
    pub fn set_column(&mut self, column: usize, cell: u32) {
        assert!(column < self.stride);
        for slot in self.cells.iter_mut().skip(column).step_by(self.stride) {
            *slot = cell;
        }
    }

    /// Moves every row of `other` (same stride) to the end of `self`.
    pub fn append(&mut self, other: &mut IdRows) {
        assert_eq!(
            self.stride, other.stride,
            "appending rows of another stride"
        );
        if self.cells.is_empty() {
            // Nothing to keep: take the other buffer instead of copying it.
            std::mem::swap(&mut self.cells, &mut other.cells);
        } else {
            self.cells.append(&mut other.cells);
        }
        self.len += other.len;
        other.len = 0;
    }

    /// Keeps the first `rows` rows.
    pub fn truncate(&mut self, rows: usize) {
        if rows < self.len {
            self.len = rows;
            self.cells.truncate(rows * self.stride);
        }
    }

    /// Removes all rows, keeping the buffer.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Keeps only the rows `keep` accepts, preserving their order.
    pub fn retain(&mut self, mut keep: impl FnMut(&[u32]) -> bool) {
        let stride = self.stride;
        let mut kept = 0usize;
        for i in 0..self.len {
            let range = i * stride..(i + 1) * stride;
            if keep(&self.cells[range.clone()]) {
                self.cells.copy_within(range, kept * stride);
                kept += 1;
            }
        }
        self.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_and_iterate() {
        let mut rows = IdRows::new(2);
        rows.push(&[1, 2]);
        rows.push_unbound()[0] = 7;
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.row(1), &[7, UNBOUND]);
        let all: Vec<&[u32]> = rows.iter().collect();
        assert_eq!(all, vec![&[1, 2][..], &[7, UNBOUND][..]]);
    }

    #[test]
    fn zero_stride_tables_still_count_rows() {
        let mut rows = IdRows::new(0);
        rows.push(&[]);
        rows.push_unbound();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.iter().count(), 2);
        rows.retain(|_| false);
        assert!(rows.is_empty());
    }

    #[test]
    fn append_truncate_retain() {
        let mut a = IdRows::new(1);
        let mut b = IdRows::new(1);
        for i in 0..5 {
            b.push(&[i]);
        }
        a.append(&mut b);
        assert!(b.is_empty());
        assert_eq!(a.stride(), 1);
        let mut c = IdRows::new(1);
        c.push(&[9]);
        a.append(&mut c);
        assert_eq!(a.len(), 6);
        a.retain(|row| row[0] % 2 == 1);
        assert_eq!(a.iter().map(|r| r[0]).collect::<Vec<_>>(), vec![1, 3, 9]);
        a.truncate(1);
        assert_eq!(a.len(), 1);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn columns_fill_from_another_table_and_skip_unbound_cells() {
        let mut source = IdRows::new(2);
        source.push(&[1, 10]);
        source.push(&[2, UNBOUND]);
        let mut out = IdRows::unbound(3, 2);
        out.fill_column(2, &source, 1, |id| id + 1);
        out.fill_column(0, &source, 0, |id| id * 2);
        assert_eq!(out.row(0), &[2, UNBOUND, 11]);
        assert_eq!(out.row(1), &[4, UNBOUND, UNBOUND]);
    }

    #[test]
    fn cells_round_trip_term_ids() {
        assert_eq!(IdRows::term_id(IdRows::cell(TermId(42))), Some(TermId(42)));
        assert_eq!(IdRows::term_id(UNBOUND), None);
    }
}
