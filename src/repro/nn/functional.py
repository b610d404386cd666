"""Convolution and segment primitives for the autograd engine.

The RL policy of the paper (Fig. 4) uses a CNN feature extractor
(3x3 kernels, stride 1, padding 1) and a deconvolutional policy head
(4x4 kernels, stride 2, padding 1).  Both are provided here as
differentiable functions over :class:`~repro.nn.tensor.Tensor`.

All contractions are expressed as ``np.matmul`` over contiguous reshaped
operands so they hit BLAS GEMM directly (in the im2col buffer's dtype —
float32 under the default policy).

The segment helpers (:func:`segment_mean`, :func:`segment_softmax`)
compose the index primitives of :mod:`repro.nn.tensor` into the ragged
reductions cross-graph batching needs (see ``repro.gnn.rgcn``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .tensor import Tensor, segment_sum


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> Tuple[np.ndarray, int, int]:
    """Unfold (N, C, H, W) into columns (N, C*kh*kw, out_h*out_w)."""
    n, c, h, w = x.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # Strided view of all kh x kw patches.
    sN, sC, sH, sW = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sN, sC, sH, sW, sH * stride, sW * stride),
        writeable=False,
    )
    cols = patches.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols), out_h, out_w


def _col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns (N, C*kh*kw, L) back into (N, C, H, W), summing overlaps."""
    n, c, h, w = x_shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution.

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_out, C_in, kh, kw)
    bias : Tensor of shape (C_out,)
    """
    c_out, c_in, kh, kw = weight.shape
    n = x.shape[0]
    cols, out_h, out_w = _im2col(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(c_out, -1)
    out = np.matmul(w_mat, cols)  # (C_out, F) @ (N, F, L) -> (N, C_out, L)
    out += bias.data.reshape(1, c_out, 1)
    out_data = out.reshape(n, c_out, out_h, out_w)

    def backward(grad, send):
        g = grad.reshape(n, c_out, -1)  # (N, C_out, L)
        send(bias, g.sum(axis=(0, 2)))
        gw = np.matmul(g, cols.transpose(0, 2, 1)).sum(axis=0)  # (C_out, F)
        send(weight, gw.reshape(weight.shape))
        if x.requires_grad:
            # Inputs that take no gradient (the first extractor conv's
            # mask planes) skip the input-grad GEMM and fold.
            gcols = np.matmul(w_mat.T, g)  # (F, C_out) @ (N, C_out, L) -> (N, F, L)
            send(x, _col2im(gcols, x.data.shape, kh, kw, stride, padding))

    return Tensor._make(out_data, (x, weight, bias), backward)


def conv_transpose2d(
    x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0
) -> Tensor:
    """Transposed 2D convolution (a.k.a. deconvolution).

    Parameters
    ----------
    x : Tensor of shape (N, C_in, H, W)
    weight : Tensor of shape (C_in, C_out, kh, kw)  (PyTorch layout)
    bias : Tensor of shape (C_out,)

    Output spatial size is ``(H - 1) * stride - 2 * padding + k``.
    """
    c_in, c_out, kh, kw = weight.shape
    n, _, h, w = x.shape
    out_h = (h - 1) * stride - 2 * padding + kh
    out_w = (w - 1) * stride - 2 * padding + kw

    # Forward of convT == backward-input of a conv with the same geometry.
    w_mat = weight.data.reshape(c_in, c_out * kh * kw)
    x_flat = x.data.reshape(n, c_in, h * w)
    cols = np.matmul(w_mat.T, x_flat)  # (F, C_in) @ (N, C_in, L) -> (N, F, L)
    out_data = _col2im(cols, (n, c_out, out_h, out_w), kh, kw, stride, padding)
    out_data += bias.data.reshape(1, c_out, 1, 1)

    def backward(grad, send):
        send(bias, grad.sum(axis=(0, 2, 3)))
        gcols, gh, gw_ = _im2col(grad, kh, kw, stride, padding)
        # gcols: (N, C_out*kh*kw, H*W) with gh == h, gw_ == w
        send(x, np.matmul(w_mat, gcols).reshape(x.data.shape))
        gweight = np.matmul(x_flat, gcols.transpose(0, 2, 1)).sum(axis=0)
        send(weight, gweight.reshape(weight.shape))

    return Tensor._make(out_data, (x, weight, bias), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``x @ W.T + b`` matching ``torch.nn.functional.linear``."""
    return x @ weight.T + bias


# ---------------------------------------------------------------------------
# Segment reductions over ragged row groups
# ---------------------------------------------------------------------------

def segment_mean(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Per-segment row mean: ``segment_sum(x) / counts`` (empty segments
    yield zeros rather than NaN)."""
    ids = np.asarray(segment_ids, dtype=np.int64)
    sums = segment_sum(x, ids, num_segments)
    counts = np.bincount(ids, minlength=num_segments).astype(sums.data.dtype)
    counts[counts == 0] = 1
    return sums * Tensor(1.0 / counts.reshape((num_segments,) + (1,) * (sums.ndim - 1)))


def segment_softmax(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax over each segment of rows (the ragged-batch analogue of the
    masked distribution's row softmax).

    ``x`` holds per-row scores, ``segment_ids`` assigns each row to a
    group; the result sums to one within every group.  Computed with the
    standard per-segment max shift for stability, and a single fused
    backward (``p * (g - segsum(p * g))``) instead of the exp/sum/div
    tape — honoring ``no_grad`` like every primitive.
    """
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.shape[0] != x_t.shape[0]:
        raise ValueError(
            f"segment_ids must be 1D with one id per row; got {ids.shape} "
            f"for {x_t.shape[0]} rows"
        )
    z = x_t.data
    # Per-segment max (running maximum; -inf for empty segments is fine,
    # those contribute no rows).
    seg_max = np.full((num_segments,) + z.shape[1:], -np.inf, dtype=z.dtype)
    np.maximum.at(seg_max, ids, z)
    shifted = z - seg_max[ids]
    exp = np.exp(shifted)
    denom = np.zeros_like(seg_max)
    np.add.at(denom, ids, exp)
    p = exp / denom[ids]

    def backward(grad, send):
        pg = p * grad
        seg = np.zeros_like(seg_max)
        np.add.at(seg, ids, pg)
        send(x_t, pg - p * seg[ids])

    return Tensor._make(p, (x_t,), backward)
