//! Regenerates Figure 3 of the paper: the actual planning-phase and
//! mapping-phase prompts CAESURA builds for the running example, read back
//! from the trace of a real run. Two mapping prompts are shown — the first
//! step (base-table inputs, no observations yet) and the first step that
//! reads an observed table (an intermediate input plus its observation) —
//! with their token counts, since a mapping prompt carries only what its
//! step's inputs make usable.

use caesura_core::Phase;
use caesura_llm::ModelProfile;

fn main() {
    let session = caesura_bench::artwork_session(ModelProfile::Gpt4);
    let run =
        session.run("Plot the number of paintings depicting Madonna and Child for each century!");
    let prompts = |phase| {
        run.trace
            .events_of(phase)
            .into_iter()
            .filter(|event| event.label == "prompt")
            .map(|event| event.detail.as_str())
            .collect::<Vec<_>>()
    };

    println!("================ Planning Phase Prompt ================\n");
    println!("{}", prompts(Phase::Planning)[0]);

    let mapping = prompts(Phase::Mapping);
    let observed = mapping
        .iter()
        .position(|prompt| prompt.contains("Previous observations:"))
        .expect("the running example has a step that reads an observed table");
    for index in [0, observed] {
        // `render` prefixes each of the two messages with a one-word role.
        let tokens = mapping[index].split_whitespace().count() - 2;
        println!(
            "\n================ Mapping Phase Prompt, step {} ({tokens} tokens) ================\n",
            index + 1
        );
        println!("{}", mapping[index]);
    }
}
