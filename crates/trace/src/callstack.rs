//! Flame-graph-style call-stack cost trees — the structure behind Fig. 8's
//! `cudaLaunchKernel` breakdown inside a TD.

use hcc_types::SimDuration;

/// One frame in a cost-annotated call tree.
///
/// `cost` is the *self* cost of this frame; [`CallFrame::total`] adds the
/// children. Rendering produces an indented, per-line breakdown similar to
/// a collapsed flame graph.
///
/// ```
/// use hcc_trace::CallFrame;
/// use hcc_types::SimDuration;
///
/// let mut root = CallFrame::new("cudaLaunchKernel", SimDuration::micros(2));
/// root.push_child(CallFrame::new("ioctl", SimDuration::micros(1)));
/// assert_eq!(root.total(), SimDuration::micros(3));
/// assert!(root.render().contains("ioctl"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFrame {
    name: String,
    cost: SimDuration,
    children: Vec<CallFrame>,
    critical: bool,
}

impl CallFrame {
    /// Creates a leaf frame with a self cost.
    pub fn new(name: impl Into<String>, cost: SimDuration) -> Self {
        CallFrame {
            name: name.into(),
            cost,
            children: Vec::new(),
            critical: false,
        }
    }

    /// Frame name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Child frames.
    pub fn children(&self) -> &[CallFrame] {
        &self.children
    }

    /// Mutable child frames, for post-construction annotation passes.
    pub fn children_mut(&mut self) -> &mut [CallFrame] {
        &mut self.children
    }

    /// Marks this frame as lying on the critical path; [`CallFrame::render`]
    /// flags marked frames with a trailing `*`.
    pub fn mark_critical(&mut self) -> &mut Self {
        self.critical = true;
        self
    }

    /// Frames marked critical, including self (depth-first order).
    pub fn critical_frames(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_critical(&mut out);
        out
    }

    fn collect_critical<'a>(&'a self, out: &mut Vec<&'a str>) {
        if self.critical {
            out.push(&self.name);
        }
        for child in &self.children {
            child.collect_critical(out);
        }
    }

    /// Adds a child frame.
    pub fn push_child(&mut self, child: CallFrame) -> &mut Self {
        self.children.push(child);
        self
    }

    /// Builder-style child addition.
    pub fn with_child(mut self, child: CallFrame) -> Self {
        self.children.push(child);
        self
    }

    /// Total cost: self plus all descendants.
    pub fn total(&self) -> SimDuration {
        self.cost + self.children.iter().map(CallFrame::total).sum()
    }

    /// Finds the first frame with `name` via depth-first search.
    pub fn find(&self, name: &str) -> Option<&CallFrame> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Renders the tree as indented text with total costs per frame.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let indent = "  ".repeat(depth);
        let mark = if self.critical { " *" } else { "" };
        let _ = writeln!(out, "{indent}{} [{}]{mark}", self.name, self.total());
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::micros(v)
    }

    fn sample() -> CallFrame {
        CallFrame::new("cudaLaunchKernel", us(2)).with_child(
            CallFrame::new("ioctl", us(1)).with_child(
                CallFrame::new("nvidia_ioctl", us(1))
                    .with_child(CallFrame::new("dma_direct_alloc", us(3)))
                    .with_child(CallFrame::new("set_memory_decrypted", us(4)))
                    .with_child(CallFrame::new("tdx_hypercall", us(5))),
            ),
        )
    }

    #[test]
    fn totals_roll_up() {
        let root = sample();
        assert_eq!(root.total(), us(16));
    }

    #[test]
    fn find_locates_deep_frames() {
        let root = sample();
        let hc = root.find("tdx_hypercall").expect("frame exists");
        assert_eq!(hc.total(), us(5));
        assert!(root.find("missing").is_none());
    }

    #[test]
    fn render_is_indented_and_complete() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].starts_with("cudaLaunchKernel"));
        assert!(lines[1].starts_with("  ioctl"));
        assert!(lines[3].contains("dma_direct_alloc"));
        // Deeper frames indent more.
        let depth = |l: &str| l.chars().take_while(|c| *c == ' ').count();
        assert!(depth(lines[3]) > depth(lines[1]));
    }

    #[test]
    fn critical_marks_annotate_render_without_perturbing_costs() {
        let mut root = sample();
        assert!(root.critical_frames().is_empty());
        let unmarked = root.render();
        assert!(!unmarked.contains('*'));

        root.mark_critical();
        for child in root.children_mut() {
            if child.name() == "ioctl" {
                child.mark_critical();
            }
        }
        assert_eq!(root.critical_frames(), vec!["cudaLaunchKernel", "ioctl"]);
        assert_eq!(root.total(), us(16), "marking never changes costs");

        let marked = root.render();
        let lines: Vec<&str> = marked.lines().collect();
        assert!(lines[0].ends_with('*'));
        assert!(lines[1].ends_with('*'));
        assert!(!lines[2].ends_with('*'));
        // Stripping the marks recovers the unmarked render exactly.
        assert_eq!(marked.replace(" *\n", "\n"), unmarked);
    }
}
