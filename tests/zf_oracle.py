"""Independent reference for the zero-forcing solve in :mod:`sdmimo`.

Solves ``H_p w_p = s_p`` per subcarrier through the thin SVD of each
K x N channel matrix, ``w = V S^{-1} U^H s``, whose accuracy degrades
with cond(H) rather than its square, and applies the rank test on the
singular values.  It shares no factorization with the package (which
uses the corrected semi-normal equations on the Gram matrices), so
comparing the two checks the accuracy of that shortcut.
"""

import numpy as np

# a subcarrier with sigma_min^2 <= SV2_RATIO * sigma_max^2 is rank deficient
SV2_RATIO = 1e-10


def svd_rank_deficient(h: np.ndarray) -> bool:
    """Whether some matrix of the (m_s, K, N) stack fails the rank test."""
    sv = np.linalg.svd(h, compute_uv=False)
    return bool(np.any(sv[:, -1] ** 2 <= SV2_RATIO * sv[:, 0] ** 2))


def svd_min_norm_solve(h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Minimum-norm solutions (m_s, N) of ``h[p] w = s[p]`` for `s` (m_s, K)."""
    u, sv, vh = np.linalg.svd(h, full_matrices=False)
    coef = (u.conj().transpose(0, 2, 1) @ s[:, :, None])[..., 0] / sv
    return (vh.conj().transpose(0, 2, 1) @ coef[:, :, None])[..., 0]
