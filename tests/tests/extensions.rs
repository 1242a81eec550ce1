//! Integration: the extension features working together — deployment
//! plans, global selection, adaptive dispatch, and 8-bit inference on a
//! trained model.

use greuse::{
    workflow::{select_patterns_global, WorkflowConfig},
    AdaptedHashProvider, AdaptiveBackend, AdaptivePolicy, DeploymentPlan, ReusePattern, Scope,
};
use greuse_data::SyntheticDataset;
use greuse_mcu::Board;
use greuse_nn::{
    evaluate_accuracy, evaluate_dense, models::CifarNet, Q7InferenceBackend, StateDict, Trainer,
    TrainerConfig,
};
use greuse_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

type Examples = Vec<(Tensor<f32>, usize)>;

fn trained() -> (CifarNet, Examples, Examples) {
    let data = SyntheticDataset::cifar_like(123);
    let (train, test) = data.train_test(80, 40, 9);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut net = CifarNet::new(10, &mut rng);
    let mut trainer = Trainer::new(TrainerConfig::fast(3, 0.01));
    trainer.train(&mut net, &train).expect("train");
    (net, train, test)
}

#[test]
fn plan_pipeline_roundtrips_through_disk() {
    let (mut net, _, test) = trained();
    // Save weights, build a plan, reload both, evaluate.
    let dir = std::env::temp_dir();
    let weights_path = dir.join("greuse_it_weights.grsd");
    let plan_path = dir.join("greuse_it_plan.plan");
    StateDict::capture(&mut net)
        .save(&weights_path)
        .expect("save weights");
    let mut plan = DeploymentPlan::new("cifarnet");
    plan.set("conv1", ReusePattern::conventional(25, 6));
    plan.set("conv2", ReusePattern::conventional(32, 6));
    plan.save(&plan_path).expect("save plan");

    let mut rng = SmallRng::seed_from_u64(999);
    let mut fresh = CifarNet::new(10, &mut rng);
    StateDict::load(&weights_path)
        .expect("load weights")
        .restore(&mut fresh)
        .expect("restore");
    let loaded_plan = DeploymentPlan::load(&plan_path).expect("load plan");
    let backend = loaded_plan.to_backend(AdaptedHashProvider::new());
    let with_reuse = evaluate_accuracy(&fresh, &backend, &test).expect("eval");
    let dense = evaluate_dense(&fresh, &test).expect("dense");
    assert!(
        with_reuse.accuracy >= dense.accuracy - 0.2,
        "plan deployment collapsed: {} vs dense {}",
        with_reuse.accuracy,
        dense.accuracy
    );
    let _ = std::fs::remove_file(&weights_path);
    let _ = std::fs::remove_file(&plan_path);
}

#[test]
fn global_selection_yields_usable_assignment() {
    let (net, train, test) = trained();
    let config = WorkflowConfig {
        scope: Scope {
            ls: vec![25],
            hs: vec![3, 6],
            ..Scope::conventional_scope()
        },
        board: Board::Stm32F469i,
        prune_to: 2,
        profile_samples: 1,
        seed: 4,
        profile_adapted: true,
        deploy_adapted: true,
    };
    let sel = select_patterns_global(
        &net,
        &["conv1", "conv2"],
        &train[..6],
        &test[..20],
        &config,
        &[0.0, 1e4],
    )
    .expect("global selection");
    let best = sel.best_accuracy().expect("some assignment");
    // The most accurate assignment should not collapse relative to dense.
    let dense = evaluate_dense(&net, &test[..20]).expect("dense").accuracy as f64;
    assert!(
        best.accuracy >= dense - 0.35,
        "global best {} vs dense {dense}",
        best.accuracy
    );
    assert!(best.latency_ms > 0.0);
}

#[test]
fn adaptive_backend_runs_whole_network() {
    let (net, _, test) = trained();
    let policy = AdaptivePolicy {
        aggressive: ReusePattern::conventional(25, 3),
        conservative: ReusePattern::conventional(25, 10),
        aggressive_above: 0.5,
        dense_below: 0.01,
    };
    let backend = AdaptiveBackend::new(AdaptedHashProvider::new())
        .with_policy("conv1", policy)
        .with_policy("conv2", policy);
    let eval = evaluate_accuracy(&net, &backend, &test[..20]).expect("eval");
    assert!(eval.accuracy > 0.2, "adaptive accuracy {}", eval.accuracy);
    // Every managed conv call logged a decision.
    assert_eq!(backend.decisions().len(), 2 * 20);
}

#[test]
fn q7_inference_close_to_f32_on_trained_model() {
    let (net, _, test) = trained();
    let dense = evaluate_dense(&net, &test).expect("dense").accuracy;
    let q7 = evaluate_accuracy(&net, &Q7InferenceBackend, &test)
        .expect("q7")
        .accuracy;
    assert!(
        q7 >= dense - 0.1,
        "full 8-bit arithmetic lost too much: {q7} vs {dense}"
    );
}
