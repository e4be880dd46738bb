//! Clean fixture for the panic-path audit and the no-sleeping-polls rule:
//! the only panic site carries a well-formed suppression whose reason
//! itself contains parentheses, the only sleep is a justified injected
//! fault, and the worker blocks on its queue.

pub fn first(xs: &[u32]) -> u32 {
    let head = xs.first().copied();
    head.unwrap() // lint: allow(panic, "fixture: head is Some by xs.first() check in caller")
}

pub fn next_job(rx: &Receiver<u32>, injected_delay: Option<Duration>) -> Option<u32> {
    if let Some(delay) = injected_delay {
        std::thread::sleep(delay); // lint: allow(design, "fault injection: fixture stall")
    }
    rx.recv().ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_in_tests_is_fine() {
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
