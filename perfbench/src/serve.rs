//! The `serve` program: a region per connection, a subregion per request
//! and a chain of nested subregions per internal redirect, in the shape of
//! `examples/webserver.rs`.
//!
//! Per-request header counts and redirect depths come from a linear
//! congruential generator inside the program, seeded by the benchmark
//! seed, so the source stays a few dozen lines however long the run. The
//! program serves connections until it has created a fixed number of
//! regions: the region table's cost grows faster than linearly with that
//! number, so fixing it keeps the work the same from seed to seed.
//! [`model`] recomputes the exit value and the region count in Rust from
//! the same seed, independently of the interpreter.

const TEMPLATE: &str = r#"
struct hdr { int key; int val; struct hdr *sameregion next; };
struct req {
    int id;
    struct hdr *sameregion hdrs;
    struct req *parentptr parent;
};
int rng;

static int draw(int n) {
    rng = (rng * 1103515245 + 12345) % 2147483648;
    return (rng / 65536) % n;
}

static int redirect(region up, struct req *parent, int depth) deletes {
    if (depth == 0) { return 0; }
    region sub = newsubregion(up);
    struct req *s = ralloc(sub, struct req);
    s->id = parent->id * 3 + depth;
    s->parent = parent;
    int sum = s->parent->id + redirect(sub, s, depth - 1);
    s = null;
    deleteregion(sub);
    return sum % 1000003;
}

static int serve(region connr, int id, int nhdrs, int depth) deletes {
    region reqr = newsubregion(connr);
    struct req *r = ralloc(reqr, struct req);
    r->id = id;
    int i;
    for (i = 0; i < nhdrs; i = i + 1) {
        struct hdr *h = ralloc(regionof(r), struct hdr);
        h->key = i;
        h->val = id * 10 + i;
        h->next = r->hdrs;
        r->hdrs = h;
    }
    int sum = redirect(reqr, r, depth);
    struct hdr *h = r->hdrs;
    while (h != null) { sum = sum + h->val; h = h->next; }
    h = null;
    r = null;
    deleteregion(reqr);
    return sum;
}

int main() deletes {
    rng = @SEED@;
    int total = 0;
    int regions = 0;
    int c = 0;
    while (regions < @REGIONS@) {
        region connr = newregion();
        regions = regions + 1;
        int nreq = 1 + draw(4);
        int k;
        for (k = 0; k < nreq; k = k + 1) {
            int nhdrs = 1 + draw(8);
            int depth = draw(4);
            total = (total + serve(connr, c * 4 + k, nhdrs, depth)) % 1000000007;
            regions = regions + 1 + depth;
        }
        deleteregion(connr);
        c = c + 1;
    }
    return total;
}
"#;

/// The generator's modulus; the program's seed is the benchmark seed
/// reduced below it.
const LCG_MOD: i64 = 1 << 31;

/// The `serve` source for a benchmark seed and a region count.
pub fn source(seed: u64, regions: u64) -> String {
    TEMPLATE
        .replace("@SEED@", &(seed % LCG_MOD as u64).to_string())
        .replace("@REGIONS@", &regions.to_string())
}

/// What a correct run of [`source`] must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Requests served.
    pub requests: u64,
    /// Regions created (and deleted): connections, requests, redirects.
    pub regions: u64,
    /// `main`'s exit value.
    pub exit: i64,
}

/// Recomputes the program's requests, regions and exit value.
pub fn model(seed: u64, regions: u64) -> Expected {
    let mut rng = (seed % LCG_MOD as u64) as i64;
    let mut draw = |n: i64| {
        rng = (rng * 1_103_515_245 + 12_345) % LCG_MOD;
        (rng / 65_536) % n
    };
    fn redirect(parent_id: i64, depth: i64) -> i64 {
        if depth == 0 {
            return 0;
        }
        (parent_id + redirect(parent_id * 3 + depth, depth - 1)) % 1_000_003
    }
    let mut e = Expected {
        requests: 0,
        regions: 0,
        exit: 0,
    };
    let mut c = 0;
    while e.regions < regions {
        e.regions += 1;
        let nreq = 1 + draw(4);
        for k in 0..nreq {
            let nhdrs = 1 + draw(8);
            let depth = draw(4);
            let id = c * 4 + k;
            let headers: i64 = (0..nhdrs).map(|i| id * 10 + i).sum();
            e.exit = (e.exit + redirect(id, depth) + headers) % 1_000_000_007;
            e.requests += 1;
            e.regions += 1 + depth as u64;
        }
        c += 1;
    }
    e
}
