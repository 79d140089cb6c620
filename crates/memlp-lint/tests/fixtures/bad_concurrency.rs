use std::sync::Mutex;
use std::sync::atomic::AtomicU64;

fn worker() -> u64 {
    let h = std::thread::spawn(|| 42);
    h.join().unwrap_or(0)
}

static COUNTER: AtomicU64 = AtomicU64::new(0);
static LOCK: Mutex<()> = Mutex::new(());
static CACHE: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
