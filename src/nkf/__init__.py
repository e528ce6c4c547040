"""Speech enhancement by modulation-domain Kalman filtering, Wiener
filtering, and their learned combination (the neural Kalman filter).

The public surface re-exports the pieces most scripts need; each module is
importable on its own for finer-grained use.
"""

from .config import RunConfig, load_config, save_config
from .data_io import (CorpusManifest, ManifestEntry, MixSpec, load_manifest,
                      mix_at_snr, oracle_noise_variance, read_wav, synth_corpus,
                      write_wav)
from .enhancer import (enhance, enhance_wiener, gradient_check, nkf_combine,
                       nkf_forward, nkf_gain, nkf_loss, train)
from .errors import ConfigError, DataError, NkfError, NumericsError
from .kalman import (enhance_kf_baseline, filter_bins, filter_segmented,
                     kf_gain, kf_predict, kf_update, run_kf)
from .linear_prediction import autocorrelate, levinson_durbin, transition_matrix
from .metrics import amplitude_mse, fwsegsnr, segsnr
from .networks import (NkfModel, build_model, load_checkpoint, lstm_forward,
                       optimizer_step, save_checkpoint)
from .pipeline import EnhancementResult, NkfFrameEstimates
from .signal_core import Spectrogram, Waveform, istft, recombine, stft
from .wiener import apply_wiener, track_sigma_y, wiener_gain

__version__ = "0.1.0"
