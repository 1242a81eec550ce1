//! Integration: a deployment plan on a trained model — weights and plan
//! saved to disk, reloaded into a fresh network, and evaluated under
//! reuse against the dense accuracy.

use greuse::{AdaptedHashProvider, DeploymentPlan, ReusePattern};
use greuse_data::SyntheticDataset;
use greuse_nn::{
    evaluate_accuracy, evaluate_dense, models::CifarNet, StateDict, Trainer, TrainerConfig,
};
use greuse_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::SeedableRng;

type Examples = Vec<(Tensor<f32>, usize)>;

fn trained() -> (CifarNet, Examples) {
    let data = SyntheticDataset::cifar_like(123);
    let (train, test) = data.train_test(80, 40, 9);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut net = CifarNet::new(10, &mut rng);
    let mut trainer = Trainer::new(TrainerConfig::fast(3, 0.01));
    trainer.train(&mut net, &train).expect("train");
    (net, test)
}

#[test]
fn plan_pipeline_roundtrips_through_disk() {
    let (mut net, test) = trained();
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
