//! Error handling demo (§3.2 of the paper): runs a query with the weaker
//! ChatGPT-3.5 profile so that planning/mapping mistakes occur, and prints the
//! execution trace showing error-analysis prompts, argument retries,
//! backtracking, and the early stop when a retry repeats the decision that
//! just failed (`repeated-decision`).
//!
//! Run with: `cargo run --example error_recovery`

use caesura::prelude::*;
use std::sync::Arc;

fn main() {
    let data = generate_artwork(&ArtworkConfig::default());

    // Sweep the benchmark queries with the weaker profile until we find a run
    // that needed error recovery, then show its trace.
    let caesura = Caesura::new(data.lake, Arc::new(SimulatedLlm::chatgpt35()));
    let queries = [
        "Plot the number of paintings depicting Madonna and Child for each century!",
        "How many paintings depict at least two swords?",
        "For each century, how many paintings depict Madonna and Child?",
        "List the titles of all paintings that depict a horse.",
        "Plot the average number of birds depicted in the paintings of each genre.",
        "How many paintings of the Baroque movement depict a skull?",
    ];
    let mut shown = false;
    for query in queries {
        let run = caesura.run(query);
        let recovered = run.trace.recovered();
        let errors = run.trace.error_count();
        println!(
            "{:<75} errors={errors} recovery={} outcome={}",
            query,
            if recovered { "yes" } else { "no " },
            if run.succeeded() { "ok" } else { "FAILED" }
        );
        if (recovered || errors > 0) && !shown {
            println!("\n--- execution trace of the first run that hit an error ---\n");
            println!("{}", run.trace.render(false));
            shown = true;
        }
    }
    if !shown {
        println!("\n(no errors occurred for this seed; try a different seed to see recovery)");
    }
}
