"""crosscal: target-based multi-LiDAR multi-camera extrinsic calibration."""

__version__ = "1.0.0"
