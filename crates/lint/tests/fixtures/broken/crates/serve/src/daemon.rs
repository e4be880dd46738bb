//! Broken fixture for the panic-path audit (a bare unwrap, an indexing
//! site with a malformed suppression) and the no-sleeping-polls rule (a
//! try_recv + sleep worker loop); test code must NOT be flagged for either.

pub fn handle(v: Option<u32>) -> u32 {
    v.unwrap()
}

pub fn index(xs: &[u32]) -> u32 {
    xs[0] // lint: allow(panic)
}

pub fn next_job(rx: &Receiver<u32>) -> u32 {
    loop {
        if let Ok(job) = rx.try_recv() {
            return job;
        }
        std::thread::sleep(POLL);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_and_sleep_in_tests_are_fine() {
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert_eq!(super::handle(Some(1)), 1);
    }
}
