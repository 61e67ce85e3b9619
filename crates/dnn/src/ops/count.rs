//! Analytic multiply-accumulate counters.
//!
//! "Total OPs" throughout the workspace follows the paper's Table II
//! convention: one MAC counts as **two** operations (a multiply and an
//! add). The counters here are pure arithmetic — no tensors are touched —
//! so the accelerator's latency model can price a paper-scale network
//! without materializing it.

/// Operations per MAC (multiply + accumulate).
pub const OPS_PER_MAC: u64 = 2;

/// MACs of a dense layer applied at `rows` positions: `rows x in -> rows x out`.
pub fn linear_macs(rows: u64, input: u64, output: u64) -> u64 {
    rows * input * output
}

/// MACs of a 2-D convolution producing an `out_h x out_w` map with
/// `out_c` output channels from `in_c` input channels under a
/// `k_h x k_w` kernel.
pub fn conv2d_macs(out_c: u64, in_c: u64, k_h: u64, k_w: u64, out_h: u64, out_w: u64) -> u64 {
    out_c * in_c * k_h * k_w * out_h * out_w
}

/// Output length of a 1-D convolution/pool along one axis.
pub fn conv_out_len(input: u64, kernel: u64, stride: u64, padding: u64) -> u64 {
    assert!(stride > 0, "stride must be positive");
    let padded = input + 2 * padding;
    assert!(
        padded >= kernel,
        "kernel {kernel} larger than padded input {padded}"
    );
    // Unit stride (every convolution but DeepLOB's level folds) skips
    // the division: it costs tens of cycles, a streamed row's whole
    // convolution a few hundred.
    let span = padded - kernel;
    (if stride == 1 { span } else { span / stride }) + 1
}

/// MACs of an LSTM over `steps` timesteps with `input`-wide inputs and
/// `hidden`-wide state (four gates, each input and recurrent).
pub fn lstm_macs(steps: u64, input: u64, hidden: u64) -> u64 {
    steps * 4 * (input * hidden + hidden * hidden)
}

/// MACs of one multi-head self-attention block over a length-`seq`
/// sequence of `d_model`-wide tokens: Q/K/V/O projections plus the two
/// `seq x seq` attention matmuls.
pub fn attention_macs(seq: u64, d_model: u64) -> u64 {
    4 * linear_macs(seq, d_model, d_model) + 2 * seq * seq * d_model
}

/// MACs of a transformer feed-forward block (`d_model -> d_ff -> d_model`).
pub fn ffn_macs(seq: u64, d_model: u64, d_ff: u64) -> u64 {
    linear_macs(seq, d_model, d_ff) + linear_macs(seq, d_ff, d_model)
}

/// Converts MACs to the paper's "total OPs".
pub fn macs_to_ops(macs: u64) -> u64 {
    macs * OPS_PER_MAC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_count() {
        assert_eq!(linear_macs(1, 128, 64), 8192);
        assert_eq!(linear_macs(10, 128, 64), 81920);
    }

    #[test]
    fn conv_count_matches_definition() {
        // 8 output channels, 3 input channels, 3x3 kernel, 10x10 output:
        assert_eq!(conv2d_macs(8, 3, 3, 3, 10, 10), 8 * 3 * 9 * 100);
    }

    #[test]
    fn conv_out_len_cases() {
        assert_eq!(conv_out_len(10, 3, 1, 0), 8);
        assert_eq!(conv_out_len(10, 3, 1, 1), 10, "same padding");
        assert_eq!(conv_out_len(10, 2, 2, 0), 5, "strided downsample");
        assert_eq!(conv_out_len(7, 7, 1, 0), 1, "full-width kernel");
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn oversized_kernel_panics() {
        let _ = conv_out_len(3, 5, 1, 0);
    }

    #[test]
    fn lstm_count() {
        // One step, 2-wide input, 3-wide hidden: 4 gates x (2*3 + 3*3).
        assert_eq!(lstm_macs(1, 2, 3), 4 * (6 + 9));
        assert_eq!(lstm_macs(10, 2, 3), 40 * 15);
    }

    #[test]
    fn attention_count() {
        // seq=2, d=4: projections 4*2*16=128, scores+context 2*4*4=32...
        assert_eq!(attention_macs(2, 4), 4 * 2 * 16 + 2 * 2 * 2 * 4);
    }

    #[test]
    fn ffn_count() {
        assert_eq!(ffn_macs(2, 4, 16), 2 * 4 * 16 + 2 * 16 * 4);
    }

    #[test]
    fn ops_are_double_macs() {
        assert_eq!(macs_to_ops(5), 10);
    }
}
